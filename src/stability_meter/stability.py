"""Stability analysis of a performance series.

Given the sequence of windowed metric values produced by continuous
evaluation, this module computes the moving average and moving (population)
standard deviation over the last M points, the derived lower/upper bounds,
the significant drops (maximal runs of points strictly below the lower
bound), and the four stability meta-measures: drop count, volatility,
drop magnitude (max/avg), and recovery rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import require_at_least

# Elements per block of full windows that moving_stats reduces at once.
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class MovingStats:
    """Per-point moving statistics of a series.

    At position i (1-based), the statistics cover the last min(i, window)
    points including point i itself: ``ma`` is their mean and ``phi`` their
    population standard deviation (divisor = window size). ``lb``/``ub``
    (``ma -/+ phi``) are computed on access.
    """

    ma: np.ndarray
    phi: np.ndarray

    @property
    def lb(self) -> np.ndarray:
        return self.ma - self.phi

    @property
    def ub(self) -> np.ndarray:
        return self.ma + self.phi


@dataclass(frozen=True)
class SignificantDrop:
    """A maximal run of consecutive drop points.

    ``start``/``end`` are 0-based inclusive indices into the series;
    ``magnitudes[j]`` is |p_i - ma_i| for the j-th point of the run.
    """

    start: int
    end: int
    magnitudes: tuple[float, ...]

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class MetaMeasures:
    """The four stability meta-measures plus the drop inventory.

    When the series has no drops, ``max_magnitude``, ``avg_magnitude`` and
    ``recovery_rate`` are None (absent), never 0.
    """

    drop_count: int
    volatility: float
    max_magnitude: float | None
    avg_magnitude: float | None
    recovery_rate: float | None
    drops: tuple[SignificantDrop, ...]
    n_points: int

    @property
    def drops_per_100_points(self) -> float:
        return 100.0 * self.drop_count / self.n_points


def check_window(window: int) -> None:
    """Reject a moving-statistics ``window`` below 1 as a :class:`~.errors.SettingError`."""
    require_at_least(1, window=window)


def moving_stats(points: Sequence[float], window: int) -> MovingStats:
    """Moving average and population standard deviation over the series.

    Point i (1-based) is summarized over the last min(i, window) points,
    itself included; the divisor is the window length, so a single point has
    ma = p and phi = 0. Constant windows yield exactly phi = 0.
    """
    check_window(window)
    series = np.asarray(points, dtype=float)
    n = len(series)
    if n == 0:
        raise ValueError("cannot compute moving statistics of an empty series")
    ma = np.empty(n)
    phi = np.empty(n)
    for i in range(min(window - 1, n)):  # warm-up: the window is still filling
        view = series[: i + 1]
        if view.max() == view.min():
            ma[i] = view[0]
            phi[i] = 0.0
        else:
            mean = view.mean()
            ma[i] = mean
            phi[i] = math.sqrt(((view - mean) ** 2).mean())
    if n >= window:
        # Row-wise reductions over the full windows sum each window in the
        # same pairwise order as a 1-D ``mean``, so the values are the same
        # bits; rolling sums (cumsum, Welford) would not be, and could leave a
        # constant window with a nonzero phi. Blocks bound the temporary
        # (rows x window) arrays.
        windows = sliding_window_view(series, window)
        rows = max(1, _BLOCK_ELEMENTS // window)
        for start in range(0, len(windows), rows):
            block = windows[start : start + rows]
            mean = block.mean(axis=1)
            spread = np.sqrt(((block - mean[:, None]) ** 2).mean(axis=1))
            flat = block.max(axis=1) == block.min(axis=1)
            at = slice(window - 1 + start, window - 1 + start + len(block))
            ma[at] = np.where(flat, block[:, 0], mean)
            phi[at] = np.where(flat, 0.0, spread)
    return MovingStats(ma=ma, phi=phi)


# The drop inequality is strict, so a point sitting exactly on its lower
# bound must not count; margins within this relative guard of zero are
# treated as "on the bound" to keep the decision stable under float
# rounding (a 2-point window always puts its smaller value exactly on lb).
_BOUND_GUARD = 1e-12


def drop_mask(points: Sequence[float], stats: MovingStats) -> np.ndarray:
    """Boolean mask of points strictly below their lower bound."""
    series = np.asarray(points, dtype=float)
    lb = stats.lb
    return series < lb - _BOUND_GUARD * np.maximum(1.0, np.abs(lb))


def detect_drops(points: Sequence[float], stats: MovingStats) -> list[SignificantDrop]:
    """All maximal runs of points strictly below their lower bound.

    Returned in ascending order; runs are pairwise disjoint and each is
    bordered by non-drop points (or the series ends). A point participates
    in its own moving statistics, so a zero-variance point can never drop.
    """
    series = np.asarray(points, dtype=float)
    below = drop_mask(series, stats)
    edges = np.flatnonzero(np.diff(np.concatenate(([False], below, [False]))))
    magnitudes = np.abs(series - stats.ma)
    return [
        SignificantDrop(
            start=start,
            end=stop - 1,
            magnitudes=tuple(magnitudes[start:stop].tolist()),
        )
        for start, stop in zip(edges[0::2].tolist(), edges[1::2].tolist())
    ]


def drop_measures(
    drops: Sequence[SignificantDrop],
) -> tuple[float | None, float | None, float | None]:
    """Max magnitude, average magnitude and recovery rate of ``drops``.

    The magnitudes pool over all drop points; the recovery rate is the mean
    drop length. All three are None when there is no drop.
    """
    if not drops:
        return None, None, None
    magnitudes = [m for drop in drops for m in drop.magnitudes]
    return (
        max(magnitudes),
        sum(magnitudes) / len(magnitudes),
        sum(len(drop) for drop in drops) / len(drops),
    )


def _measures(stats: MovingStats, drops: list[SignificantDrop]) -> MetaMeasures:
    max_magnitude, avg_magnitude, recovery_rate = drop_measures(drops)
    return MetaMeasures(
        drop_count=len(drops),
        volatility=float(np.mean(stats.phi)),
        max_magnitude=max_magnitude,
        avg_magnitude=avg_magnitude,
        recovery_rate=recovery_rate,
        drops=tuple(drops),
        n_points=len(stats.ma),
    )


@dataclass(frozen=True, eq=False)
class SeriesAnnotation:
    """Per-point annotation of one series as columns, plus its measures.

    ``value``, ``ma`` and ``std`` hold one float per point; ``lb``/``ub``
    (``ma -/+ std``) and ``drop_id`` (each point's 1-based drop number in
    ``measures``, else 0) are computed on access. ``len()`` is the point count.
    """

    value: np.ndarray
    ma: np.ndarray
    std: np.ndarray
    measures: MetaMeasures

    def __len__(self) -> int:
        return len(self.value)

    @property
    def lb(self) -> np.ndarray:
        return self.ma - self.std

    @property
    def ub(self) -> np.ndarray:
        return self.ma + self.std

    @property
    def drop_id(self) -> np.ndarray:
        drop_id = np.zeros(len(self.value), dtype=np.int64)
        for number, drop in enumerate(self.measures.drops, start=1):
            drop_id[drop.start : drop.end + 1] = number
        return drop_id

    @property
    def is_drop(self) -> np.ndarray:
        return self.drop_id > 0


def annotate_series(points: Sequence[float], window: int) -> SeriesAnnotation:
    """Moving statistics, drops and meta-measures of a series in one pass."""
    series = np.asarray(points, dtype=float)
    stats = moving_stats(series, window)
    return SeriesAnnotation(series, stats.ma, stats.phi, _measures(stats, detect_drops(series, stats)))


def meta_measures(points: Sequence[float], window: int) -> MetaMeasures:
    """The four stability meta-measures of a series: ``annotate_series(points, window).measures``.

    Volatility is the mean of all per-point moving standard deviations.
    Magnitudes aggregate |p_i - ma_i| over all drop points; the recovery
    rate is the mean drop length. The magnitude and recovery fields are
    absent (None) when the series has no drops.
    """
    return annotate_series(points, window).measures
