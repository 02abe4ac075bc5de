"""Event logs for tests, built the one way the library builds them: by parsing CSV text."""

import random
from io import StringIO

from stability_meter.event_model import REQUIRED_COLUMNS, parse_log
from stability_meter.prefixing import CategoryCodec
from stability_meter.synthgen import DriftLogSpec, generate, to_csv


def parsed_log(source, columns=REQUIRED_COLUMNS):
    """``parse_log`` of a synth log or of rows written in code.

    ``source`` is a :class:`DriftLogSpec`, whose generated log is written with
    ``to_csv``, or rows of cells under the header ``columns``; a cell is
    written with ``str`` and ``None`` stands for an empty cell.
    """
    if isinstance(source, DriftLogSpec):
        text = to_csv(generate(source))
    else:
        lines = [",".join(columns)]
        lines.extend(",".join("" if cell is None else str(cell) for cell in row) for row in source)
        text = "\n".join(lines) + "\n"
    return parse_log(StringIO(text))


def coded_texts(codec, log):
    """Text -> code of each string of ``log`` that the run's ``codec`` has coded."""
    return {log.strings[string_id]: code for string_id, code in codec.items() if string_id}


def shuffled_blanked_log(seed, n_cases=90):
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
    return parse_log(StringIO("\n".join([header, *blanked]) + "\n"))


def full_codec(log):
    """A ``CategoryCodec`` of every string of ``log``, coded in string-table order."""
    codec = CategoryCodec()
    for string_id in range(1, len(log.strings)):
        codec[string_id]
    return codec


def codec_like(text_codec, log):
    """A ``CategoryCodec`` of ``log`` that gives each text the code ``text_codec`` gave it."""
    codec = CategoryCodec()
    for text in text_codec._codes:  # in first-use order, so the codes come out equal
        codec[log.strings.index(text)]
    return codec
