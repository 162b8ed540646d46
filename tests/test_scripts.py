"""Smoke runs of the scripts under ``scripts/``, each in its own interpreter."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import emorag

REPO = Path(__file__).resolve().parents[1]
SRC = str(Path(emorag.__file__).resolve().parents[1])


def run(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demo_assets_drive_a_byte_identical_synth(tmp_path):
    out = run([sys.executable, "scripts/make_demo_assets.py", "--out", str(tmp_path)])
    # the invocation follows the "try:" line, continued with a trailing backslash
    tail = out.split("try:\n", 1)[1]
    argv = shlex.split(tail.replace("\\\n", " "))
    assert argv[:4] == ["python3", "-m", "emorag", "synth"]
    mel = Path(argv[argv.index("--out") + 1])
    frames = []
    for _ in range(2):
        run([sys.executable, *argv[1:]])
        frames.append(mel.read_bytes())
    assert frames[0] == frames[1]


def test_transport_toy_script_runs():
    out = run([sys.executable, "scripts/train_transport_toy.py", "--steps", "50", "--samples", "100"])
    assert "trained 50 steps" in out
    assert "moment errors" in out
