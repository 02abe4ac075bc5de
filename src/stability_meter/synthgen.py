"""Synthetic labeled event logs with an injected concept drift.

Cases follow a small request-handling process: a fixed start activity, a
branching activity at position 2, a short walk over filler activities, and
a closing activity. The outcome is determined by the branching activity and
flipped with a configurable noise probability. At the drift point the
outcome rule inverts its dependence on the branch, so a model trained on the
first regime degrades sharply while the control flow barely changes.

:func:`generate` returns the log's CSV text, each row written as its case
is drawn. Generation is deterministic: each case derives its own RNG from
the log seed and the case index, so any case range can be produced
independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import SettingError, require_at_least
from .event_model import REQUIRED_COLUMNS

START_ACTIVITY = "submit_request"
BRANCH_ACTIVITIES = ("manual_review", "auto_check")
FILLER_ACTIVITIES = ("collect_docs", "verify_income", "assess_risk", "request_info")
CLOSE_ACTIVITY = "close_case"
CHANNELS = ("web", "branch", "phone")
ATTRIBUTE_NAMES = ("amount", "channel")

MIN_CASE_LENGTH = 4
MAX_CASE_LENGTH = 16

# New cases start every CASE_SPACING ticks while events within a case are
# 5..40 ticks apart, so neighbouring cases overlap in the stream.
CASE_SPACING = 7

# Filler-activity transition weights per regime, keyed by the previous
# activity (branch activities seed the walk).
_TRANSITIONS = {
    1: {
        BRANCH_ACTIVITIES[0]: (4, 2, 2, 1),
        BRANCH_ACTIVITIES[1]: (1, 2, 4, 2),
        "collect_docs": (1, 4, 2, 1),
        "verify_income": (2, 1, 4, 1),
        "assess_risk": (2, 2, 1, 3),
        "request_info": (3, 1, 2, 1),
    },
    2: {
        BRANCH_ACTIVITIES[0]: (2, 4, 1, 2),
        BRANCH_ACTIVITIES[1]: (2, 1, 2, 4),
        "collect_docs": (1, 2, 4, 1),
        "verify_income": (4, 1, 1, 2),
        "assess_risk": (1, 3, 1, 3),
        "request_info": (2, 2, 3, 1),
    },
}


@dataclass(frozen=True)
class DriftLogSpec:
    """Shape of a generated log: size, drift point, seed, and label noise."""

    n_cases: int
    drift_at: int
    seed: int = 0
    noise: float = 0.05

    def __post_init__(self) -> None:
        require_at_least(1, n_cases=self.n_cases)
        if not 1 <= self.drift_at <= self.n_cases:
            raise SettingError(f"{{}} must be in [1, {self.n_cases}], got {self.drift_at}", "drift_at")
        if not 0.0 <= self.noise < 0.5:
            raise SettingError(f"{{}} must be in [0, 0.5), got {self.noise}", "noise")


def case_regime(spec: DriftLogSpec, index: int) -> int:
    """Regime of the 1-based case index.

    ``drift_at`` is the last case of the first regime, so ``drift_at ==
    n_cases`` produces a drift-free log.
    """
    return 1 if index <= spec.drift_at else 2


def positive_branch(regime: int) -> str:
    """The branching activity that maps to label 1 under the given regime."""
    return BRANCH_ACTIVITIES[0] if regime == 1 else BRANCH_ACTIVITIES[1]


def oracle_label(branch: str, regime: int) -> int:
    """Noise-free label the outcome rule assigns to a case with this branch."""
    return int(branch == positive_branch(regime))


def _case_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def generate(spec: DriftLogSpec) -> str:
    """The log as CSV text in the ingestion format, ready for :func:`~.event_model.parse_log`.

    Rows are grouped by case in generation order, each case's rows in
    timestamp order; the label is written on the last row of each case only.
    """
    rows = [",".join(REQUIRED_COLUMNS + ATTRIBUTE_NAMES) + "\n"]
    for index in range(1, spec.n_cases + 1):
        rng = _case_rng(spec.seed, index)
        regime = case_regime(spec, index)
        transitions = _TRANSITIONS[regime]

        length = rng.randint(MIN_CASE_LENGTH, MAX_CASE_LENGTH)
        branch = rng.choice(BRANCH_ACTIVITIES)
        activities = [START_ACTIVITY, branch]
        while len(activities) < length - 1:
            weights = transitions[activities[-1]] if activities[-1] in transitions else (1, 1, 1, 1)
            activities.append(rng.choices(FILLER_ACTIVITIES, weights=weights)[0])
        activities.append(CLOSE_ACTIVITY)

        label = oracle_label(branch, regime)
        if rng.random() < spec.noise:
            label = 1 - label

        case_id = f"case_{index:05d}"
        timestamp = (index - 1) * CASE_SPACING
        cells = [""] * (length - 1) + [label]
        for activity, label_cell in zip(activities, cells):
            timestamp += rng.randint(5, 40)
            amount = round(rng.uniform(50.0, 5000.0), 2)
            channel = rng.choice(CHANNELS)
            rows.append(f"{case_id},{activity},{timestamp},{label_cell},{amount},{channel}\n")
    return "".join(rows)
