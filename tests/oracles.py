"""Independent brute-force reference implementations used by the tests.

Everything here recomputes each window from scratch; nothing is shared
with the package's code paths. ``brute_*`` use plain Python and
``math.fsum`` precision. ``loop_moving_stats`` is the per-point numpy loop
the package used before it vectorised the full windows, kept as the
bit-exact reference for that change.
"""

from __future__ import annotations

import math
from math import fsum

import numpy as np


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
