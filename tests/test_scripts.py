"""Smoke runs of the scripts under ``scripts/``, each in its own interpreter."""

import importlib.util
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


def _bench_record(monkeypatch):
    """scripts/bench_record.py as a module; the sys.path entries it adds end with the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_record", REPO / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_block_is_deterministic_and_sees_one_ulp(tmp_path, monkeypatch):
    bench = _bench_record(monkeypatch)
    monkeypatch.setitem(bench.gen.SIZES, "retrieve-gated", {"records": 96, "queries": 6})
    small_synth = {"records": 32, "queries": 4, "ode_steps": 2, "min_chars": 3, "max_chars": 9}
    monkeypatch.setitem(bench.gen.SIZES, "synth", small_synth)
    first = bench.outputs(seeds=(5,), train_steps=2)
    assert bench.outputs(seeds=(5,), train_steps=2) == first
    assert len(first["retrieve-gated"]["seed 5"]["answers"]) == 12  # 3 modes x 4 gates
    assert bench.differences(first, first) == []
    # one float of one record one ulp up: the tampered copy gen.py writes
    manifest = bench.gen.prepare("retrieve-gated", 5, tmp_path)
    (tmp_path / manifest["db"]).write_bytes((tmp_path / manifest["tampered_db"]).read_bytes())
    nudged = {**first, "retrieve-gated": {"seed 5": bench.retrieval_outputs(tmp_path, manifest)}}
    changed = [line.split(":")[0] for line in bench.differences(first, nudged)]
    for key in ("emdb_sha256", "emix_sha256", "fingerprint_loaded", "fingerprint_built"):
        assert f"/retrieve-gated/seed 5/{key}" in changed
