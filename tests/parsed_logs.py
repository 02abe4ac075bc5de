"""Event logs for tests, built the one way the library builds them: by parsing CSV text."""

from io import StringIO

from stability_meter.event_model import REQUIRED_COLUMNS, parse_log
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
