"""The README's Python API example runs against the current package."""

import re
import shlex
from pathlib import Path

from emorag.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "emo1"
    assert len(out) == 4 and all("RetrievalResult(" in line for line in out[1:])


def test_quick_start_commands_parse():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1].split("\n## ", 1)[0]
    script = "\n".join(re.findall(r"```sh\n(.*?)```", section, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines() if line.startswith("emorag ")]
    assert {argv[1] for argv in commands} == {"gen-data", "build-index", "retrieve", "bench", "train-fm", "synth"}
    for argv in commands:
        args = build_parser().parse_args(argv[1:])  # a flag the parser lacks exits here
        assert args.command == argv[1]
