"""Hypothesis strategy for small CSV event logs, well-formed or not.

A drawn log has a header made of the log columns in any order, sometimes
with one dropped or one repeated, followed by rows that mix plausible cells
(valid and invalid timestamps, labels and attribute values), arbitrary
text, blank lines, short and long rows, and raw lines with stray quotes.
"""

import csv
import io

from hypothesis import strategies as st

COLUMNS = ("case_id", "activity", "timestamp", "label", "amount", "channel")

_ANY_CELL = st.text(st.characters(codec="utf-8"), max_size=5)

# Plausible cells, and the invalid ones each column sees now and then.
_VALID = {
    "case_id": ["a", "b", "c", " a "],
    "activity": ["x", "y", "z", " x"],
    "timestamp": ["1", "2", "3", "10", " 4 ", "-7", "1970-01-01T00:00:05Z", "1970-01-01T00:00:05+01:00"],
    "label": ["", "", "0", "1", " 1 "],
    "amount": ["", "5", "7.5", " 1e3 ", "-0", "1_0"],
    "channel": ["", "web", "phone", "nan", "10"],
}
_INVALID = {
    "case_id": [""],
    "activity": [""],
    "timestamp": ["", "soon", "99999999999999999999"],
    "label": ["2"],
    "amount": ["nan", "inf", "many"],
    "channel": ["web"],
}


_OUTCOMES = {"a": "1", "b": "0", "c": " 0 "}


def _cell(draw, name: str, clean: bool) -> str:
    if name not in _VALID:
        return draw(_ANY_CELL)
    pool = _VALID if clean or draw(st.integers(0, 9)) else _INVALID
    return draw(st.sampled_from(pool[name]))


@st.composite
def csv_logs(draw) -> str:
    """The text of one small CSV event log.

    Two logs in three are clean: plausible cells in full rows, so that runs
    get past parsing; the others draw every kind of damage.
    """
    clean = draw(st.integers(0, 2)) > 0
    header = list(draw(st.permutations(COLUMNS)))
    drop = draw(st.sampled_from([None] * 4 * len(header) + list(range(len(header)))))
    if drop is not None:
        del header[drop]
    if header and draw(st.booleans()):
        header.append(draw(st.sampled_from(header)))

    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for _ in range(draw(st.integers(1 if clean else 0, 12))):
        kind = "row" if clean else draw(st.sampled_from(["row"] * 4 + ["cells", "blank", "raw"]))
        if kind == "row":
            cells = [_cell(draw, name, clean) for name in header]
            if clean and "case_id" in header and "label" in header:
                # one outcome per case; still, a case may end up with no label
                case_id = cells[header.index("case_id")].strip()
                outcome = _OUTCOMES.get(case_id, "1") if draw(st.integers(0, 2)) else ""
                cells[len(header) - 1 - header[::-1].index("label")] = outcome
            size = None if clean else draw(st.sampled_from([None, *range(len(cells) + 3)]))
            if size is not None:
                cells = (cells + [draw(_ANY_CELL) for _ in range(3)])[:size]
            writer.writerow(cells)
        elif kind == "cells":
            writer.writerow(draw(st.lists(_ANY_CELL, max_size=8)))
        elif kind == "blank":
            out.write("\n")
        else:
            out.write(draw(st.text(alphabet='ab1,"\n ', max_size=8)) + "\n")
    return out.getvalue()


@st.composite
def many_case_logs(draw) -> str:
    """The text of one clean CSV event log of 10 to 60 overlapping cases.

    Cases have 1 to 5 events drawn from a small alphabet, at timestamps that
    often tie within and across cases; each case's label sits on one of its
    rows; ``amount`` and ``channel`` cells are sometimes blank, and the rows
    come in a drawn order.
    """
    rows = []
    for case in range(draw(st.integers(10, 60))):
        length = draw(st.integers(1, 5))
        start = draw(st.integers(0, 40))
        stamps = sorted(draw(st.lists(st.integers(start, start + 6), min_size=length, max_size=length)))
        label_at = draw(st.integers(0, length - 1))
        label = draw(st.sampled_from("01"))
        for position, stamp in enumerate(stamps):
            rows.append(
                [
                    f"c{case}",
                    draw(st.sampled_from("xyzw")),
                    str(stamp),
                    label if position == label_at else "",
                    draw(st.sampled_from(["", "5", "7.5", "-0", "1e3", "2"])),
                    draw(st.sampled_from(["", "web", "phone", "x", "10"])),
                ]
            )
    rows = draw(st.permutations(rows))
    return "\n".join(",".join(row) for row in [list(COLUMNS), *rows]) + "\n"
