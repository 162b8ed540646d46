"""Record what the program computes on the benchmark's inputs, or check it against a record.

The outputs block is computed in process, with this checkout's ``src``, from the
inputs that ``perfbench/gen.py`` writes:

- every ``retrieve`` answer (id, similarity bits, candidates scanned) for every
  query x {no gate, weak, normal, strong} x {embedding without the index,
  embedding with it, clustering}, on ``retrieve-gated`` seeds 1 and 1009, with
  the sha256 of the database and index files the program writes and the
  fingerprints of the database loaded and built in memory;
- the ``synth`` mel digest of seeds 1 and 1009: the sha256 over the 64 raw
  sha256 digests of the mel files, in request order;
- the sha256 of the checkpoint ``emorag train-fm --steps 30 --seed 3`` writes.

Mel and checkpoint bytes depend on the BLAS kernel, so ``--check`` compares them
only when the BLAS core and the numpy version equal the record's.

    python3 scripts/bench_record.py --outputs-only                  # writes BENCH_<short-sha>.json
    python3 scripts/bench_record.py --outputs-only --check BENCH_x.json

Only the outputs half is recorded so far; the timings are not.
"""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import worker  # noqa: E402  (its environment block: CPUs, BLAS, numpy, python)
from emorag import (  # noqa: E402
    EmbeddingDatabase,
    SynthesisRequest,
    build_index_bundle,
    load_checkpoint,
    load_db,
    load_embedding_file,
    load_token_map,
    retrieve,
    run_inference,
    save_db,
    save_index_bundle,
)
from emorag.cli import main as emorag_main  # noqa: E402

SEEDS = (1, 1009)
GATES = (None, "weak", "normal", "strong")
MODES = (("embedding", "embedding", False), ("embedding+index", "embedding", True), ("clustering", "clustering", True))
BLAS_BOUND = ("synth", "train-fm")  # outputs whose bytes depend on the BLAS kernel


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def retrieval_outputs(inputs: Path, manifest: dict) -> dict:
    """Files, fingerprints and every answer of one ``retrieve-gated`` input set."""
    db = load_db(inputs / manifest["db"])
    bundle = build_index_bundle(db, seed=manifest["seed"])
    built = EmbeddingDatabase(db.dim, db.matrix, db.intensity_codes, db.ids, db.labels, db.transcripts, db.audio_refs)
    save_db(db, inputs / "saved.emdb")
    save_index_bundle(bundle, inputs / "saved.emix")
    queries = [load_embedding_file(inputs / q, dim=db.dim) for q in manifest["queries"]]
    answers = {}
    for name, method, indexed in MODES:
        for gate in GATES:
            results = (retrieve(db, q, method, index=bundle if indexed else None, intensity=gate) for q in queries)
            answers[f"{name} {gate or 'none'}"] = [
                f"{r.record_id} {r.similarity.hex()} {r.candidates_scanned}" for r in results
            ]
    return {
        "emdb_sha256": _sha256(inputs / "saved.emdb"),
        "emix_sha256": _sha256(inputs / "saved.emix"),
        "fingerprint_loaded": db.fingerprint.hex(),
        "fingerprint_built": built.fingerprint.hex(),
        "answers": answers,
    }


def synth_digest(inputs: Path, manifest: dict) -> str:
    """sha256 over the raw sha256 of each request's mel file, in request order."""
    db = load_db(inputs / manifest["db"])
    bundle = build_index_bundle(db, seed=manifest["seed"])
    model = load_checkpoint(inputs / manifest["checkpoint"])
    token_map = load_token_map(inputs / manifest["token_map"])
    out = inputs / "mel.frames"
    combined = hashlib.sha256()
    for r in manifest["requests"]:
        query = load_embedding_file(inputs / manifest["queries"][r["query"]], dim=db.dim)
        request = SynthesisRequest(query, r["text"], r["method"], r["intensity"], r["seed"])
        run_inference(db, model, request, out, index=bundle, token_map=token_map, ode_steps=manifest["ode_steps"])
        combined.update(hashlib.sha256(out.read_bytes()).digest())
    return combined.hexdigest()


def checkpoint_digest(work: Path, steps: int, seed: int) -> str:
    out = work / "model.ckpt"
    with contextlib.redirect_stdout(io.StringIO()):
        code = emorag_main(["train-fm", "--steps", str(steps), "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"train-fm exited with {code}")
    return _sha256(out)


def outputs(seeds=SEEDS, train_steps: int = 30) -> dict:
    """The outputs block: ``retrieve-gated`` and ``synth`` per seed, then ``train-fm``."""
    block = {"retrieve-gated": {}, "synth": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in block:
            for seed in seeds:
                inputs = Path(tmp) / f"{workload}-{seed}"
                manifest = gen.prepare(workload, seed, inputs)
                run = retrieval_outputs if workload == "retrieve-gated" else synth_digest
                block[workload][f"seed {seed}"] = run(inputs, manifest)
        block["train-fm"] = {f"--steps {train_steps} --seed 3": checkpoint_digest(Path(tmp), train_steps, 3)}
    return block


def differences(want, got, where: str = "") -> list:
    """One line per leaf that differs between two JSON values."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [line for key in {**want, **got} for line in differences(want.get(key), got.get(key), f"{where}/{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [line for i, (w, g) in enumerate(zip(want, got)) for line in differences(w, g, f"{where}[{i}]")]
    return [] if want == got else [f"{where}: {want!r} != {got!r}"]


def _git(*args):
    """The stripped output of a git command in this checkout; None outside a git checkout."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outputs-only", action="store_true", help="record or check the outputs block only")
    parser.add_argument("--check", type=Path, default=None, help="compare with this BENCH_*.json file")
    args = parser.parse_args()
    if not args.outputs_only:
        parser.error("only the outputs block is recorded so far: pass --outputs-only")
    env = worker.environment()
    got = outputs()
    if args.check is None:
        sha, status = _git("rev-parse", "--short", "HEAD"), _git("status", "--porcelain", "--", "src", "scripts", "perfbench")
        record = {
            "sha": sha,
            "program_dirty": None if status is None else bool(status),
            "environment": env,
            "outputs": got,
        }
        path = ROOT / f"BENCH_{sha or 'unknown'}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}")
        return 0
    record = json.loads(args.check.read_text())
    want, theirs = record["outputs"], record["environment"]
    if (env["blas"]["core"], env["numpy"]) != (theirs["blas"]["core"], theirs["numpy"]):
        for key in BLAS_BOUND:
            want.pop(key, None)
            got.pop(key, None)
        print(f"not compared ({', '.join(BLAS_BOUND)}): BLAS core or numpy differs from {args.check}")
    lines = differences(want, got)
    print("\n".join(lines) if lines else "outputs: identical")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
