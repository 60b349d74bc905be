"""The README's Library example runs against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    ref, scores = capsys.readouterr().out.splitlines()
    assert ref == "paper\tB"
    assert scores.startswith("[")
