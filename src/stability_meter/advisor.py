"""Scenario-based ranking of competing configurations.

Business scenarios are classified by decision frequency and decision risk.
Each critical scenario maps to an ordered list of stability measures, all
lower-is-better, applied lexicographically: high-frequency scenarios favor
fast recovery and small drops, high-risk scenarios favor few drops and low
volatility. Ties break toward the higher average metric value, then by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .stability import MetaMeasures, drop_measures

# Accepted spellings for profile criteria -> canonical field name.
MEASURE_ALIASES = {
    "f": "drops",
    "drops": "drops",
    "v": "volatility",
    "volatility": "volatility",
    "m_max": "max_magnitude",
    "max_magnitude": "max_magnitude",
    "m_avg": "avg_magnitude",
    "avg_magnitude": "avg_magnitude",
    "r_avg": "recovery_rate",
    "recovery_rate": "recovery_rate",
    "avg_metric": "avg_metric",
}


@dataclass(frozen=True)
class ScenarioProfile:
    """Ordered lower-is-better criteria defining a lexicographic preference."""

    scenario: str
    criteria: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.criteria:
            raise ConfigError("a scenario profile needs at least one criterion")

    @classmethod
    def parse(cls, scenario: str, text: str) -> "ScenarioProfile":
        """Build a profile from a comma-separated criteria string."""
        criteria = []
        for raw in text.split(","):
            key = raw.strip().lower()
            if key not in MEASURE_ALIASES:
                raise ConfigError(
                    f"unknown measure {raw.strip()!r} in profile; expected one of "
                    f"{sorted(set(MEASURE_ALIASES.values()))}"
                )
            criteria.append(MEASURE_ALIASES[key])
        return cls(scenario=scenario, criteria=tuple(criteria))


SCENARIO_PROFILES = {
    "hf-lr": ScenarioProfile("hf-lr", ("recovery_rate", "avg_magnitude")),
    "lf-hr": ScenarioProfile("lf-hr", ("drops", "volatility", "max_magnitude")),
    "hf-hr": ScenarioProfile("hf-hr", ("volatility", "drops", "recovery_rate", "avg_magnitude")),
}


@dataclass(frozen=True)
class ConfigSummary:
    """One candidate's average metric plus its stability measures."""

    name: str
    avg_metric: float
    drops: int
    volatility: float
    max_magnitude: float | None = None
    avg_magnitude: float | None = None
    recovery_rate: float | None = None

    @classmethod
    def from_mapping(cls, entry: Mapping) -> "ConfigSummary":
        if not isinstance(entry, Mapping):
            raise ConfigError(f"config entry must be an object, got {entry!r}")
        try:
            return cls(
                name=str(entry["name"]),
                avg_metric=float(entry["avg_metric"]),
                drops=int(entry["drops"]),
                volatility=float(entry["volatility"]),
                max_magnitude=_optional(entry.get("max_magnitude")),
                avg_magnitude=_optional(entry.get("avg_magnitude")),
                recovery_rate=_optional(entry.get("recovery_rate")),
            )
        except KeyError as missing:
            raise ConfigError(f"config entry is missing field {missing}") from None
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(
                f"config entry {entry.get('name')!r} has a non-numeric field ({err})"
            ) from None

    def value_of(self, measure: str) -> float | int | None:
        if measure not in set(MEASURE_ALIASES.values()):
            raise ConfigError(f"unknown measure {measure!r}")
        return getattr(self, measure)


def _optional(value) -> float | None:
    return None if value is None else float(value)


def rank(configs: Sequence[ConfigSummary], profile: ScenarioProfile) -> list[str]:
    """Order configuration names by the profile's lexicographic criteria.

    Absent measure values (a configuration without any drop) count as
    best-possible on that criterion. The result is a total order: it does
    not depend on the input order.
    """
    if not configs:
        raise ConfigError("rank needs at least one configuration")

    def sort_key(summary: ConfigSummary):
        key = []
        for measure in profile.criteria:
            value = summary.value_of(measure)
            key.append(float("-inf") if value is None else float(value))
        key.append(-summary.avg_metric)
        key.append(summary.name)
        return tuple(key)

    return [summary.name for summary in sorted(configs, key=sort_key)]


def pool_summaries(
    name: str, per_bucket: Iterable[tuple[float, MetaMeasures]]
) -> ConfigSummary:
    """Aggregate per-bucket measures into one configuration-level summary.

    Drops are summed; volatility is the point-weighted mean of the bucket
    volatilities (the pooled mean of all moving standard deviations);
    magnitudes pool over all drop points; the recovery rate is the pooled
    total drop points over total drops.
    """
    rows = list(per_bucket)
    if not rows:
        raise ConfigError(f"no measures to pool for {name!r}")
    total_points = sum(measures.n_points for _, measures in rows)
    avg_metric = sum(avg for avg, _ in rows) / len(rows)
    drops = sum(measures.drop_count for _, measures in rows)
    volatility = (
        sum(measures.volatility * measures.n_points for _, measures in rows) / total_points
    )
    max_magnitude, avg_magnitude, recovery_rate = drop_measures(
        [drop for _, measures in rows for drop in measures.drops]
    )
    return ConfigSummary(
        name=name,
        avg_metric=avg_metric,
        drops=drops,
        volatility=volatility,
        max_magnitude=max_magnitude,
        avg_magnitude=avg_magnitude,
        recovery_rate=recovery_rate,
    )
