"""Event logs for tests, built the one way the library builds them: by parsing CSV text."""

import random
from io import StringIO

from stability_meter.event_model import REQUIRED_COLUMNS, parse_log
from stability_meter.synthgen import DriftLogSpec, generate, to_csv


def csv_text(source, columns=REQUIRED_COLUMNS):
    """The CSV text of a synth log or of rows written in code.

    ``source`` is a :class:`DriftLogSpec`, whose generated log is written with
    ``to_csv``, or rows of cells under the header ``columns``; a cell is
    written with ``str`` and ``None`` stands for an empty cell.
    """
    if isinstance(source, DriftLogSpec):
        return to_csv(generate(source))
    lines = [",".join(columns)]
    lines.extend(",".join("" if cell is None else str(cell) for cell in row) for row in source)
    return "\n".join(lines) + "\n"


def parsed_log(source, columns=REQUIRED_COLUMNS):
    """``parse_log`` of :func:`csv_text`."""
    return parse_log(StringIO(csv_text(source, columns)))


def shuffled_blanked_csv(seed, n_cases=90):
    """A seeded synth log with its rows shuffled and about a tenth of its attribute cells blank."""
    rng = random.Random(seed)
    header, *rows = to_csv(generate(DriftLogSpec(n_cases=n_cases, drift_at=n_cases // 2, seed=seed))).splitlines()
    columns = header.split(",")
    attributes = [columns.index("amount"), columns.index("channel")]
    blanked = []
    for row in rows:
        cells = row.split(",")
        for at in attributes:
            if rng.random() < 0.1:
                cells[at] = ""
        blanked.append(",".join(cells))
    rng.shuffle(blanked)
    return "\n".join([header, *blanked]) + "\n"
