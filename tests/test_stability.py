import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stability_meter import stability
from stability_meter.errors import SettingError
from stability_meter.stability import (
    annotate_series,
    detect_drops,
    drop_mask,
    meta_measures,
    moving_stats,
)

from oracles import (
    brute_meta,
    brute_moving_stats,
    loop_drop_runs,
    loop_moving_stats,
    stats_from_ma_phi,
)


def test_moving_stats_warmup_and_window():
    stats = moving_stats([0.5, 0.7, 0.9, 0.9], window=3)
    assert stats.ma == pytest.approx([0.5, 0.6, 0.7, 0.833333], abs=1e-6)
    assert stats.phi == pytest.approx([0.0, 0.1, 0.163299, 0.094281], abs=1e-6)
    assert np.all(stats.lb <= stats.ma) and np.all(stats.ma <= stats.ub)


def test_moving_stats_constant_series_is_exactly_flat():
    stats = moving_stats([0.1] * 7, window=3)
    assert np.all(stats.ma == 0.1)
    assert np.all(stats.phi == 0.0)


def test_moving_stats_large_window_equals_cumulative():
    points = [0.2, 0.4, 0.9, 0.1, 0.6]
    big = moving_stats(points, window=50)
    for i in range(len(points)):
        chunk = np.array(points[: i + 1])
        assert big.ma[i] == pytest.approx(chunk.mean(), abs=1e-12)
        assert big.phi[i] == pytest.approx(chunk.std(), abs=1e-12)


def test_moving_stats_rejects_bad_window_and_empty_series():
    with pytest.raises(SettingError, match="^window must be >= 1, got 0$") as raised:
        moving_stats([0.5], window=0)
    assert raised.value.settings == ("window",)
    with pytest.raises(ValueError):
        moving_stats([], window=3)


def test_first_point_never_drops():
    stats = moving_stats([0.3, 0.3, 0.3], window=2)
    assert stats.phi[0] == 0.0
    assert detect_drops([0.3, 0.3, 0.3], stats) == []


def test_detect_drops_on_supplied_fragment_stats():
    # drop classification applied to externally supplied ma/phi values
    stats = stats_from_ma_phi(ma=[0.7, 0.69, 0.66], phi=[0.03, 0.03, 0.04])
    points = [0.75, 0.65, 0.5]
    drops = detect_drops(points, stats)
    assert len(drops) == 1
    assert points[drops[0].start : drops[0].end + 1] == [0.65, 0.5]
    assert drops[0].start == 1 and drops[0].end == 2


def test_single_point_recovery_after_spike_down():
    mm = meta_measures([0.8, 0.8, 0.8, 0.2, 0.8], window=3)
    assert mm.drop_count == 1
    assert [(d.start, d.end) for d in mm.drops] == [(3, 3)]
    assert mm.volatility == pytest.approx(0.113137, abs=1e-6)
    assert mm.max_magnitude == pytest.approx(0.4, abs=1e-12)
    assert mm.avg_magnitude == pytest.approx(0.4, abs=1e-12)
    assert mm.recovery_rate == 1.0


def test_two_point_drop_then_recovery():
    mm = meta_measures([0.9] * 5 + [0.4, 0.4, 0.9], window=5)
    assert mm.drop_count == 1
    assert [(d.start, d.end) for d in mm.drops] == [(5, 6)]
    assert mm.recovery_rate == 2.0
    assert mm.max_magnitude == pytest.approx(0.4, abs=1e-12)
    assert mm.avg_magnitude == pytest.approx(0.35, abs=1e-12)


def test_constant_series_has_no_drops_and_zero_volatility():
    mm = meta_measures([0.7] * 40, window=5)
    assert mm.drop_count == 0
    assert mm.volatility == 0.0
    assert mm.max_magnitude is None
    assert mm.avg_magnitude is None
    assert mm.recovery_rate is None


def test_drops_per_100_points():
    mm = meta_measures([0.8, 0.8, 0.8, 0.2, 0.8], window=3)
    assert mm.drops_per_100_points == pytest.approx(20.0)


_COLUMNS = ("value", "ma", "std", "lb", "ub", "drop_id")


def test_annotate_rows_mark_the_drop():
    annotation = annotate_series([0.8, 0.8, 0.8, 0.2, 0.8], window=3)
    assert len(annotation) == 5
    assert annotation.is_drop.tolist() == [False, False, False, True, False]
    assert annotation.drop_id[3] == 1
    assert np.all(annotation.drop_id[~annotation.is_drop] == 0)


def test_annotate_single_point():
    annotation = annotate_series([0.42], window=30)
    assert len(annotation) == 1
    assert annotation.std[0] == 0.0 and not annotation.is_drop[0]


def test_annotate_is_deterministic():
    points = list(np.random.default_rng(7).uniform(size=60))
    first, second = annotate_series(points, 10), annotate_series(points, 10)
    for column in _COLUMNS:
        assert np.array_equal(getattr(first, column), getattr(second, column))
    assert first.measures == second.measures


def _differential_series(rng, n, kind):
    if kind == "uniform":
        return rng.uniform(size=n)
    if kind == "two-decimal":  # metric-like values with many exact ties
        return np.round(rng.uniform(size=n), 2)
    if kind == "three-valued":
        return rng.choice([0.0, 0.5, 1.0], size=n)
    # constant runs of random length, so many windows are exactly flat
    levels = np.round(rng.uniform(size=n), 2)
    return np.repeat(levels, rng.integers(1, 80, size=n))[:n]


def _assert_bit_identical_to_loop(points, window):
    stats = moving_stats(points, window)
    ma, phi = loop_moving_stats(points, window)
    assert np.array_equal(stats.ma, ma)
    assert np.array_equal(stats.phi, phi)
    assert np.array_equal(stats.lb, ma - phi)
    assert np.array_equal(stats.ub, ma + phi)
    lb = ma - phi
    below = points < lb - 1e-12 * np.maximum(1.0, np.abs(lb))
    assert np.array_equal(drop_mask(points, stats), below)
    runs = loop_drop_runs(below.tolist())
    drops = detect_drops(points, stats)
    assert [(d.start, d.end) for d in drops] == runs
    for drop in drops:
        segment = slice(drop.start, drop.end + 1)
        assert (points[segment] < lb[segment]).all()
        assert drop.magnitudes == tuple(np.abs(points[segment] - ma[segment]).tolist())
    annotation = annotate_series(points, window)
    assert np.array_equal(annotation.ma, ma) and np.array_equal(annotation.std, phi)
    expected_ids = np.zeros(len(points), dtype=int)
    for number, (start, end) in enumerate(runs, start=1):
        expected_ids[start : end + 1] = number
    assert np.array_equal(annotation.drop_id, expected_ids)


@pytest.mark.parametrize("kind", ["uniform", "two-decimal", "three-valued", "constant-runs"])
def test_moving_stats_is_bit_identical_to_the_per_point_loop(kind):
    rng = np.random.default_rng(["uniform", "two-decimal", "three-valued", "constant-runs"].index(kind))
    for _ in range(10):
        n = int(rng.integers(1, 3001))
        window = int(rng.integers(1, 501))
        _assert_bit_identical_to_loop(_differential_series(rng, n, kind), window)


@pytest.mark.parametrize(
    "n, window",
    [(1, 1), (1, 500), (2, 1), (29, 30), (30, 30), (31, 30), (127, 128), (128, 128),
     (129, 128), (300, 129), (600, 256), (3000, 500)],
)
def test_moving_stats_bit_identity_around_the_window_length(n, window):
    rng = np.random.default_rng(n * 1000 + window)
    for kind in ("uniform", "two-decimal", "three-valued", "constant-runs"):
        _assert_bit_identical_to_loop(_differential_series(rng, n, kind), window)


def test_moving_stats_blocks_do_not_change_the_result(monkeypatch):
    rng = np.random.default_rng(11)
    points = _differential_series(rng, 700, "two-decimal")
    monkeypatch.setattr(stability, "_BLOCK_ELEMENTS", 97)  # several ragged blocks
    for window in (1, 5, 30, 96, 97, 200):
        _assert_bit_identical_to_loop(points, window)


def _series(seed, max_len=200):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_len + 1))
    return rng.uniform(size=n).tolist(), int(rng.integers(1, 51))


@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force_recomputation(seed):
    points, window = _series(seed)
    stats = moving_stats(points, window)
    ma, phi, lb, ub = brute_moving_stats(points, window)
    assert np.allclose(stats.ma, ma, atol=1e-12, rtol=0)
    assert np.allclose(stats.phi, phi, atol=1e-12, rtol=0)
    reference = brute_meta(points, window)
    mm = meta_measures(points, window)
    assert mm.drop_count == reference["drops"]
    assert [(d.start, d.end) for d in mm.drops] == reference["runs"]
    assert mm.volatility == pytest.approx(reference["volatility"], abs=1e-12)


# metric-like values on a 1e-6 grid: realistic range, plenty of exact ties
_metric_values = st.integers(min_value=0, max_value=10**6).map(lambda v: v / 10**6)


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(_metric_values, min_size=1, max_size=80),
    window=st.integers(min_value=1, max_value=40),
)
def test_structural_invariants(points, window):
    stats = moving_stats(points, window)
    mm = meta_measures(points, window)
    # bounds sanity
    assert np.all(stats.lb <= stats.ma) and np.all(stats.ma <= stats.ub)
    # partition identity: drops are disjoint, maximal, and cover all drop points
    flagged = {i for drop in mm.drops for i in range(drop.start, drop.end + 1)}
    mask = drop_mask(points, stats)
    below = {i for i in range(len(points)) if mask[i]}
    assert flagged == below
    assert sum(len(drop) for drop in mm.drops) == len(below)
    for drop in mm.drops:
        if drop.start > 0:
            assert drop.start - 1 not in below
        if drop.end < len(points) - 1:
            assert drop.end + 1 not in below
    # zero deviation points can never drop
    for i in below:
        assert stats.phi[i] > 0.0
    if mm.drop_count > 0:
        assert mm.max_magnitude >= mm.avg_magnitude > 0.0
        assert mm.recovery_rate >= 1.0
    else:
        assert mm.max_magnitude is None and mm.avg_magnitude is None and mm.recovery_rate is None


@pytest.mark.parametrize("seed", range(15))
def test_shift_invariance(seed):
    points, window = _series(seed + 1000)
    rng = np.random.default_rng(seed + 5000)
    shift = float(rng.uniform(-0.5, 2.0))
    base = meta_measures(points, window)
    moved = meta_measures([p + shift for p in points], window)
    assert [(d.start, d.end) for d in moved.drops] == [(d.start, d.end) for d in base.drops]
    assert moved.volatility == pytest.approx(base.volatility, abs=1e-9)
    if base.drop_count:
        assert moved.max_magnitude == pytest.approx(base.max_magnitude, abs=1e-9)
        assert moved.avg_magnitude == pytest.approx(base.avg_magnitude, abs=1e-9)
        assert moved.recovery_rate == base.recovery_rate


@pytest.mark.parametrize("seed", range(15))
def test_positive_scale_equivariance(seed):
    points, window = _series(seed + 2000)
    rng = np.random.default_rng(seed + 6000)
    scale = float(rng.uniform(0.1, 3.0))
    base = meta_measures(points, window)
    scaled = meta_measures([p * scale for p in points], window)
    assert [(d.start, d.end) for d in scaled.drops] == [(d.start, d.end) for d in base.drops]
    assert scaled.drop_count == base.drop_count
    assert scaled.volatility == pytest.approx(base.volatility * scale, abs=1e-9)
    if base.drop_count:
        assert scaled.max_magnitude == pytest.approx(base.max_magnitude * scale, abs=1e-9)
        assert scaled.avg_magnitude == pytest.approx(base.avg_magnitude * scale, abs=1e-9)
        assert scaled.recovery_rate == base.recovery_rate
