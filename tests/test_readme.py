"""The README's Python API example runs against the current package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "emo1"
    assert len(out) == 4 and all("RetrievalResult(" in line for line in out[1:])
