"""Counting the trees a run builds, through either entry of the tree learner, and the cuts it scores.

``DecisionTree.fit`` grows one tree and ``fit_windows`` a batch of them;
neither calls the other, so patching both counts every tree once.
"""

import itertools

import numpy as np

from stability_meter import classifiers


def count_trees(monkeypatch) -> list:
    """Patch both entries so that every tree they build is appended to the returned list."""
    trees = []
    fit, fit_windows = classifiers.DecisionTree.fit, classifiers.fit_windows

    def counted_fit(tree, *args):
        trees.append(tree)
        return fit(tree, *args)

    def counted_fit_windows(*args, **kwargs):
        built = fit_windows(*args, **kwargs)
        trees.extend(built)
        return built

    monkeypatch.setattr(classifiers.DecisionTree, "fit", counted_fit)
    monkeypatch.setattr(classifiers, "fit_windows", counted_fit_windows)
    return trees


def count_scored(monkeypatch) -> list:
    """Patch the candidate scoring so that each numeric search's candidates are appended to the returned list.

    Each entry holds the node and the left row count of every candidate
    cut. A numeric search follows its depth's categorical one, so every
    second call of ``_first_best`` scores cuts.
    """
    calls = []
    first_best = classifiers._first_best
    searches = itertools.count()

    def counted(ones_left, n_left, node, scored):
        if next(searches) % 2:
            calls.append((np.array(node), np.array(n_left)))
        return first_best(ones_left, n_left, node, scored)

    monkeypatch.setattr(classifiers, "_first_best", counted)
    return calls
