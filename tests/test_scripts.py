"""Smoke runs of the scripts under ``scripts/``, each in its own interpreter."""

import importlib.util
import os
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

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


def _perfbench_record(seed, trace, latency, import_s, setup_rep_s, layers=None):
    """A made-up ``perfbench/run.py --out`` record: only the fields the timings block reads."""
    e2e = {"setup_s": statistics.median(import_s) + statistics.median(setup_rep_s), "latency_p50_ms": latency}
    record = {"workload": "synth", "seed": seed, "trace": trace, "seconds": 48.0, "correct": True}
    record.update(e2e=dict(e2e, latency_p95_ms=None), samples={"import_s": import_s, "setup_rep_s": setup_rep_s})
    return record if layers is None else dict(record, layers=layers)


def test_timings_block_summarizes_untraced_and_traced_records(monkeypatch):
    bench = _bench_record(monkeypatch)
    records = [
        _perfbench_record(1, 0, 8.0, [0.1, 0.3, 0.2], [0.05, 0.07, 0.06]),
        _perfbench_record(1009, 0, 10.0, [0.4, 0.2, 0.3], [0.02, 0.04, 0.03]),
        _perfbench_record(1, 1, 99.0, [9.0], [9.0], layers={"flow.ode_ms": 6.5, "pipeline.stage_failures": 0}),
    ]
    block = bench.timings(records)
    assert list(block) == ["synth"]
    synth = block["synth"]
    assert (synth["seeds"], synth["seconds"], synth["correct"]) == ([1, 1009], [48.0], True)
    e2e = synth["end_to_end"]
    assert set(e2e) == {"setup_s", "latency_p50_ms", "setup_import_s", "setup_set_up_s"}  # None is left out
    assert e2e["latency_p50_ms"] == dict(zip(("q1", "median", "q3"), statistics.quantiles([8.0, 10.0], n=4)))
    assert e2e["latency_p50_ms"]["median"] == 9.0
    assert e2e["setup_import_s"]["median"] == pytest.approx(0.25)  # medians 0.2 and 0.3 per run
    assert e2e["setup_set_up_s"]["median"] == pytest.approx(0.045)  # 0.06 and 0.03
    # each run's two parts add up to its setup_s, so over two runs the medians do too
    assert e2e["setup_import_s"]["median"] + e2e["setup_set_up_s"]["median"] == pytest.approx(e2e["setup_s"]["median"])
    assert synth["per_layer"] == {"flow.ode_ms": 6.5, "pipeline.stage_failures": 0}
    records[2]["correct"] = False
    assert bench.timings(records)["synth"]["correct"] is False


def test_check_leaves_blas_bound_outputs_out_only_in_another_environment(monkeypatch):
    bench = _bench_record(monkeypatch)
    same, other = {"blas": {"core": "Haswell"}, "numpy": "2.0.2"}, {"blas": {"core": "SkylakeX"}, "numpy": "2.0.2"}
    files = {"emdb_sha256": "d", "emix_sha256": "x", "fingerprint_loaded": "f", "fingerprint_built": "f"}

    def block(answer="r 1 0x1.0000000000000p+0 8", **changed):  # an id with a space, its bits, rows scanned
        seed = {**files, **changed, "answers": {"embedding none": [answer, "r2 0x1.8000000000000p-1 8"]}}
        return {"retrieve-gated": {"seed 1": seed}, "synth": {"seed 1": "m"}, "train-fm": {"c": "t"}}

    record = {"outputs": block(), "environment": same}
    # the BLAS kernel's outputs: the similarity bits, the EMIX bytes, the mel and the checkpoint
    blas = block("r 1 0x1.0000000000001p+0 8", emix_sha256="y")
    blas["synth"], blas["train-fm"] = {"seed 1": "n"}, {"c": "u"}
    assert bench.check(record, block(), same) == ["outputs: identical"]
    assert len(bench.check(record, blas, same)) == 4
    assert bench.check(record, blas, other)[1:] == ["outputs: identical"]
    # ids, rows scanned, the EMDB bytes and the fingerprints are compared in any environment
    for key in ("emdb_sha256", "fingerprint_loaded", "fingerprint_built"):
        for env in (same, other):
            want = f"/retrieve-gated/seed 1/{key}: {files[key]!r} != 'g'"
            assert bench.check(record, block(**{key: "g"}), env)[-1] == want
    for answer, diff in (("r 1 0x1.0000000000000p+0 9", "'r 1 8' != 'r 1 9'"), ("r3 0x1.0000000000000p+0 8", "'r 1 8' != 'r3 8'")):
        assert bench.check(record, block(answer), other)[1:] == [f"/retrieve-gated/seed 1/answers/embedding none[0]: {diff}"]
        assert bench.check(record, block(answer), same) != ["outputs: identical"]
