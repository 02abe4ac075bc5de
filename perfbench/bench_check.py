"""Output check of one ``stability-meter run``, independent of the program.

Every series in ``performance.csv`` is recomputed from its ``value`` column
with plain Python and ``math.fsum``: the moving average and population
standard deviation over the last ``ma_window`` points (a constant window has
``std`` exactly 0 and ``ma`` equal to its first value), the bounds
``ma -/+ std``, the drop flags (strictly below the lower bound, with a
1e-12 relative guard) and the 1-based drop numbering. ``meta.json``'s
``n_points`` and ``drops`` must agree with those rows. Nothing here imports
``stability_meter``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from math import fsum
from pathlib import Path

HEADER = ["label_index", "bucket", "metric", "value", "ma", "std", "lb", "ub", "is_drop", "drop_id"]

# Same absolute tolerance the oracle tests allow between the streaming
# statistics and a from-scratch recomputation; lb/ub add two such errors.
STAT_TOL = 1e-12
BOUND_GUARD = 1e-12


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def reference_stats(values: list[float], window: int) -> tuple[list[float], list[float]]:
    """Per-point (ma, std) over the last min(i, window) points, from scratch."""
    ma, std = [], []
    for i in range(len(values)):
        chunk = values[max(0, i - window + 1) : i + 1]
        if max(chunk) == min(chunk):
            ma.append(chunk[0])
            std.append(0.0)
        else:
            mean = fsum(chunk) / len(chunk)
            ma.append(mean)
            std.append(math.sqrt(fsum((x - mean) ** 2 for x in chunk) / len(chunk)))
    return ma, std


def check_series(key: str, rows: list[list[str]], window: int) -> tuple[list[str], int]:
    """Problems found in one series' rows, and its number of drops."""
    problems: list[str] = []
    values = [float(row[3]) for row in rows]
    ma_ref, std_ref = reference_stats(values, window)
    drops = 0
    in_drop = False
    previous_label = None
    for i, row in enumerate(rows):
        where = f"{key} point {i + 1}"
        label_index = int(row[0])
        if previous_label is not None and label_index <= previous_label:
            problems.append(f"{where}: label_index {label_index} not increasing")
        previous_label = label_index
        ma, std, lb, ub = (float(field) for field in row[4:8])
        lb_ref = ma_ref[i] - std_ref[i]
        ub_ref = ma_ref[i] + std_ref[i]
        if abs(ma - ma_ref[i]) > STAT_TOL or abs(std - std_ref[i]) > STAT_TOL:
            problems.append(f"{where}: ma/std {ma!r}/{std!r} != {ma_ref[i]!r}/{std_ref[i]!r}")
        if abs(lb - lb_ref) > 2 * STAT_TOL or abs(ub - ub_ref) > 2 * STAT_TOL:
            problems.append(f"{where}: lb/ub {lb!r}/{ub!r} != {lb_ref!r}/{ub_ref!r}")
        is_drop = values[i] < lb_ref - BOUND_GUARD * max(1.0, abs(lb_ref))
        if is_drop and not in_drop:
            drops += 1
        in_drop = is_drop
        expected = ("true", str(drops)) if is_drop else ("false", "")
        if (row[8], row[9]) != expected:
            problems.append(f"{where}: is_drop/drop_id {row[8]}/{row[9]!r}, expected {expected}")
    return problems, drops


def check_outputs(out_dir: Path, limit: int = 20) -> list[str]:
    """All problems (at most ``limit``) found in a run's output directory."""
    try:
        meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
        with open(out_dir / "performance.csv", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            table = list(reader)
    except (OSError, ValueError) as err:
        return [f"unreadable output: {err}"]
    if header != HEADER:
        return [f"performance.csv header {header!r}"]

    window = int(meta["configuration"]["ma_window"])
    series: dict[tuple[str, str], list[list[str]]] = {}
    for row in table:
        if len(row) != len(HEADER):
            return [f"performance.csv row with {len(row)} fields: {row!r}"]
        series.setdefault((row[1], row[2]), []).append(row)

    problems: list[str] = []
    entries = {(str(e["bucket"]), e["metric"]): e for e in meta["series"]}
    if set(entries) != set(series):
        problems.append(f"meta.json series {sorted(entries)} != performance.csv series {sorted(series)}")
    for key, rows in series.items():
        name = f"k{key[0]}/{key[1]}"
        found, drops = check_series(name, rows, window)
        problems.extend(found)
        entry = entries.get(key)
        if entry is not None and (entry["n_points"], entry["drops"]) != (len(rows), drops):
            problems.append(
                f"{name}: meta.json n_points/drops {entry['n_points']}/{entry['drops']}, "
                f"rows give {len(rows)}/{drops}"
            )
        if len(problems) >= limit:
            break
    return problems[:limit]


class OutputJudge:
    """Judges every run of one workload in one benchmark invocation.

    A run passes when its ``performance.csv`` and ``meta.json`` digests equal
    those of the workload's first run and those outputs pass
    :func:`check_outputs`. The check is made once per distinct digest pair.
    """

    def __init__(self) -> None:
        self.digests: dict[str, str] | None = None
        self._checked: dict[tuple[str, str], list[str]] = {}

    def judge(self, out_dir: Path) -> list[str]:
        try:
            digests = {
                name: sha256_of(out_dir / name) for name in ("performance.csv", "meta.json")
            }
        except OSError as err:
            return [f"missing output: {err}"]
        key = (digests["performance.csv"], digests["meta.json"])
        if key not in self._checked:
            self._checked[key] = check_outputs(out_dir)
        problems = list(self._checked[key])
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append(f"digests {digests} differ from the first run's {self.digests}")
        return problems
