"""The code blocks of the README's "Library use" section run as written."""

import re
from pathlib import Path

from stability_meter.synthgen import DriftLogSpec, generate

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.DOTALL | re.MULTILINE)


def test_readme_library_code_runs_on_a_synth_log(tmp_path, monkeypatch, capsys):
    log = generate(DriftLogSpec(n_cases=400, drift_at=200, seed=3))
    (tmp_path / "drift.csv").write_text(log)
    monkeypatch.chdir(tmp_path)
    blocks = _library_blocks()
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:  # later blocks use the names earlier ones bind
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == sum(block.count("print(") for block in blocks)
