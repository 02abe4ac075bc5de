"""Counting the trees a run builds, through either entry of the tree learner.

``DecisionTree.fit`` grows one tree and ``fit_windows`` a batch of them;
neither calls the other, so patching both counts every tree once.
"""

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
